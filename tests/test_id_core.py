"""The integer-id core: one id table per closed complex, pieces as views
over it, copies as tags, and the field code on ids, each checked against
the freshly closed complex or the Simplex-keyed reference it replaced."""
from __future__ import annotations

import argparse
import collections
import dataclasses
import importlib
import itertools
import json
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    ComplexError,
    DecompositionError,
    FieldError,
    NotAcyclicError,
    ParseError,
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
    parse_decomposition,
    simplicial_homology,
)
from morsemv import cli, formats
from morsemv.cli import _load_decomposition, main
from morsemv.complexes import _Table, copy_relabel, intersection, union
from morsemv.homology import _simplicial_chains, simplicial_chain_complex
from morsemv.mv import _piece
from morsemv.verify import _build_v_field, _build_w_field
from morsemv import morse
from morsemv.morse import GradientField, is_acyclic
from conftest import (
    corpus_complexes,
    decomposition_text,
    expected_homology,
    poor_field,
    product,
    random_cover,
    random_generators,
    seven_vertex_torus,
)
from slow_reference import (
    ReferencePrism,
    reference_arrays,
    reference_closed_trajectory,
    reference_descends,
    reference_greedy,
    reference_table,
    reference_xtilde_maps,
    retag,
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


def spied(monkeypatch, owner, *names: str) -> list[list[tuple]]:
    """Wrap each `owner.name` so that it records its arguments, call by
    call: one list per name, in order."""
    calls = []
    for name in names:
        inner, seen = getattr(owner, name), []
        monkeypatch.setattr(owner, name, lambda *args, inner=inner, seen=seen:
                            seen.append(args) or inner(*args))
        calls.append(seen)
    return calls


def calls_in_run(monkeypatch, owner, name: str, command: str, cx: Path, dec: Path) -> int:
    """How many times one CLI run of `command` calls `owner.name`."""
    (calls,) = spied(monkeypatch, owner, name)
    assert main([command, "--complex", str(cx), "--decomposition", str(dec)]) == 0
    return len(calls)


GOLDEN = Path(__file__).parent / "golden"


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(AWKWARD_NAMES), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=12,
    ), st.randoms(use_true_random=False))
    def test_lines_in_any_vertex_order_and_repeated(self, generators, rng):
        """A complex file may list a simplex's vertices in any order, and
        the same simplex on more than one line; the table is the closure
        of the sorted name tuples all the same."""
        lines = [list(g) for g in generators]
        lines += [list(rng.choice(generators)) for _ in range(rng.randint(1, 4))]
        for line in lines:
            rng.shuffle(line)
        rng.shuffle(lines)
        table = parse_complex("".join(" ".join(line) + "\n" for line in lines))._table
        verts, facets, cofacets = reference_table(tuple(sorted(g)) for g in generators)
        assert [tuple(table.names[v] for v in vs) for vs in table.verts] == verts
        assert table.facets == facets
        assert table.cofacets == cofacets

    def test_xtilde_piece_and_ground_match_names(self):
        for name, x in sorted(corpus_complexes().items()):
            rng = random.Random(len(name))
            for _ in range(3):
                xt = build_xtilde(build_decomposition(x, *random_cover(x, rng)))
                piece, ground = reference_xtilde_maps(xt)
                assert list(xt._piece) == piece
                assert xt._ground == ground


class TestOneNameRule:
    """Vertex names reach ids by one rule, that of `_Table.of_names`: the
    names are ranked, then the ranks sorted.  `_id` reads names in any
    order, as a list, a `Simplex` or a string, and the pieces of a `.dec`
    file are read from lines as written."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(AWKWARD_NAMES), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=12,
    ), st.integers(min_value=0))
    def test_id_of_names_in_any_order(self, generators, seed):
        rng = random.Random(seed)
        x = SimplicialComplex(Simplex(g) for g in generators)
        top = list(x.maximal_simplices)
        view = x.subcomplex(rng.sample(top, rng.randint(1, len(top))))
        for y in (x, view, copy_relabel(view, "A:").complex):
            tag, members = y._tag, {s.vertices for s in y.simplices()}
            for s in x.simplices():
                named = [tag + v for v in s.vertices]
                i = y._id(named)
                assert (i is not None) == (tuple(named) in members)
                if i is not None:
                    assert y._simplex(i).vertices == tuple(named)
                shuffled = rng.sample(named, len(named))
                assert y._id(shuffled) == i
                assert y._id(Simplex(shuffled)) == y._id(-Simplex(named)) == i
                assert y._id(" ".join(shuffled)) == i
                assert y._id(shuffled + [named[0]]) is None  # a repeated name
                outside = rng.randrange(len(named) + 1)
                assert y._id([*shuffled[:outside], tag + "w", *shuffled[outside:]]) is None
                assert y._id([tag + "w", *shuffled[1:]]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_batches_match_per_name_lookups(self, rng):
        """`GradientField.certify` gives the arrays, or the FieldError text,
        of one lookup per pair end (`reference_arrays`), and `==`,
        `is_subcomplex_of` and `intersection` agree with the members' name
        sets, on a view, complexes closed separately and tagged copies."""
        x = SimplicialComplex(random_generators(rng))
        top = list(x.maximal_simplices)
        view = x.subcomplex(rng.sample(top, rng.randint(1, len(top))))
        complexes = [x, view, SimplicialComplex(view.maximal_simplices)]
        complexes += [copy_relabel(y, "A:").complex for y in (x, view)]
        complexes.append(SimplicialComplex(complexes[-1].maximal_simplices))
        field = random_matching(x, rng)
        pushed = VectorField((retag(s, "", "A:"), retag(t, "", "A:")) for s, t in field)
        names = [{s.vertices for s in y} for y in complexes]
        for y, members in zip(complexes, names):
            for v in (field, pushed):
                try:
                    want = reference_arrays(v, y)
                except FieldError as e:
                    with pytest.raises(FieldError) as got:
                        GradientField.certify(v, y)
                    assert str(got.value) == str(e)
                    continue
                try:
                    gvf = GradientField.certify(v, y)
                except NotAcyclicError:
                    assert v._arrays(y) == want
                else:
                    assert (gvf._up, gvf._down, gvf._lift) == want
            for z, others in zip(complexes, names):
                assert (y == z) == (members == others)
                assert y.is_subcomplex_of(z) == (members <= others)
                if members & others:
                    assert {s.vertices for s in intersection(y, z)} == members & others
                else:
                    with pytest.raises(ComplexError, match="share no simplices"):
                        intersection(y, z)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(AWKWARD_NAMES), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=12,
    ), st.randoms(use_true_random=False))
    def test_pieces_in_one_pass(self, generators, rng):
        """A piece read from `.dec`-style name lists in any vertex order, on
        a complex, a view and a tagged copy, is the plain closure of the
        lists' name sets; an unknown name, a repeated one or a simplex
        outside the complex fails the piece with the text it always had."""
        x = SimplicialComplex(Simplex(g) for g in generators)
        top = list(x.maximal_simplices)
        view = x.subcomplex(rng.sample(top, rng.randint(1, len(top))))
        outside = [s.vertices for s in x.simplices() if s not in view]
        for y in (x, view, copy_relabel(view, "A:").complex):
            tag, table = y._tag, y._table
            members = y.simplices()
            chosen = rng.sample(members, rng.randint(1, len(members)))
            lines = [rng.sample(s.vertices, len(s.vertices)) for s in chosen]
            piece = _piece(y, lines, "A")
            closed, _, _ = reference_table(
                tuple(sorted(v[len(tag):] for v in s.vertices)) for s in chosen)
            assert piece._table is table and piece._tag == tag
            assert sorted(
                (len(table.verts[i]), tuple(table.names[v] for v in table.verts[i]))
                for i in range(len(table)) if piece._mask[i]
            ) == sorted((len(vs), vs) for vs in closed)
            assert piece == SimplicialComplex(chosen)
            line = rng.choice(lines)
            faults = [[*line[:1], tag + "w"], line + line[:1]]
            faults += [[tag + v for v in vs] for vs in outside[:1] if y is not x]
            for fault in faults:
                bad = [*lines]
                bad.insert(rng.randrange(len(bad) + 1), fault)
                with pytest.raises(DecompositionError) as e:
                    _piece(y, bad, "A")
                assert str(e.value) == "A is not a subcomplex of X"

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_dec_lines_in_any_vertex_order(self, rng):
        """The pieces of `.dec` lines whose vertices come in any order are
        the views `subcomplex` closes from the same simplices, and their
        intersection is that of the pieces closed afresh."""
        x = SimplicialComplex(random_generators(rng))
        a, b = random_cover(x, rng)

        def lines(piece: SimplicialComplex) -> list[str]:
            return [" ".join(rng.sample(s.vertices, len(s.vertices)))
                    for s in piece.maximal_simplices]

        parsed = parse_decomposition("\n".join(["[A]", *lines(a), "[B]", *lines(b)]) + "\n")
        d = build_decomposition(x, _piece(x, parsed.a_generators, "A"),
                                _piece(x, parsed.b_generators, "B"))
        for piece, fresh in ((d.a, a), (d.b, b)):
            want = x.subcomplex(fresh.maximal_simplices)
            assert piece._table is x._table and piece._mask == want._mask
            assert piece == fresh
        if set(a.vertices) & set(b.vertices):
            assert d.iab == intersection(a, b)
            assert d.iab._mask == intersection(d.a, d.b)._mask
        else:
            assert d.iab is None


    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([0.0, 0.5, 1.0]))
    def test_dec_lines_copied_or_rewritten(self, rng, copied):
        """On the CLI's route, a `.dec` line that the complex file holds as
        written resolves by one probe of X's line map, never split, and
        any other line (re-spaced, its vertices reordered, a comment added)
        by its names, as every line does through `parse_decomposition`; the
        pieces are the same either way, the views `subcomplex` closes, and
        a line outside X fails its piece with the text it always had.
        `copied` is the chance that a line is a copy: none, about half, or
        all of them."""
        generators = random_generators(rng)

        def written(vertices) -> str:  # a line naming these vertices
            vs = rng.sample(vertices, len(vertices))
            return (rng.choice(["", " "]) + rng.choice([" ", " ", "  ", "\t"]).join(vs)
                    + rng.choice(["", " ", "  # a comment"]))

        cx_lines = [written(g.vertices) for g in generators]
        cx_text = "\n".join(cx_lines) + "\n"
        x = parse_complex(cx_text)
        lines_of = collections.defaultdict(list)
        for g, line in zip(generators, cx_lines):
            lines_of[g.vertices].append(line)
        a, b = random_cover(x, rng)

        def dec_lines(piece: SimplicialComplex) -> list[str]:
            return [rng.choice(lines_of[s.vertices]) if rng.random() < copied
                    else written(s.vertices) for s in piece.maximal_simplices]

        a_lines, b_lines = dec_lines(a), dec_lines(b)
        dec_text = "\n".join(["[A]", *a_lines, "[B]", *b_lines])
        parsed = parse_decomposition(dec_text)
        pieces = (("A", parsed.a_generators, a), ("B", parsed.b_generators, b))
        for name, gens, fresh in pieces:
            assert _piece(x, gens, name)._mask == x.subcomplex(fresh.maximal_simplices)._mask
            bad = rng.choice([("w",), ("w", *gens[0]), gens[0] + gens[0][:1], (*gens[0][1:], 0)])
            k = rng.randrange(len(gens) + 1)
            with pytest.raises(DecompositionError) as e:
                _piece(x, gens[:k] + [bad] + gens[k:], name)
            assert str(e.value) == f"{name} is not a subcomplex of X"
        # with no name known, only X's line map resolves a line, on the CLI's
        # route: a piece does when A's first line, which decides for X, and
        # all its own lines are held by the complex file as written
        x = parse_complex(cx_text)
        x._table.rank = {}
        held = {content(line) for line in cx_lines}.__contains__
        parsed = cli._read_decomposition(dec_text, x._table.line_ids)
        looked_up = held(content(a_lines[0]))
        for name, gens, lines, fresh in (("A", parsed.a_generators, a_lines, a),
                                         ("B", parsed.b_generators, b_lines, b)):
            if looked_up and all(map(held, map(content, lines))):
                assert _piece(x, gens, name) == fresh
            else:
                with pytest.raises(DecompositionError):
                    _piece(x, gens, name)


def content(line: str) -> str:
    """A file line as the parsers see it: its comment and surrounding
    whitespace cut."""
    return line.split("#")[0].strip()


class _Loaded(Exception):
    """Stops `cli._load_decomposition` where it would build the fields."""


def cli_route(cx_text: str, dec_text: str, x: SimplicialComplex | None = None):
    """What `cli._load_decomposition` reads from a complex and a `.dec` file:
    the `.dec` as its reader returned it, and the pieces it hands to
    `build_decomposition`, which is stopped there.  X is read from
    `cx_text`, or is `x` when one is given."""
    seen, read = {}, cli._read_decomposition

    def reader(text, line_ids):
        seen["parsed"] = read(text, line_ids)
        return seen["parsed"]

    def build(x, a, b, **kwargs):
        seen["pieces"] = a, b
        raise _Loaded

    patches = {"_read": {"x.cx": cx_text, "x.dec": dec_text}.__getitem__,
               "_read_decomposition": reader, "build_decomposition": build}
    if x is not None:
        patches["parse_complex"] = lambda text: x
    with mock.patch.multiple(cli, **patches), pytest.raises(_Loaded):
        _load_decomposition(argparse.Namespace(
            complex="x.cx", decomposition="x.dec", strategy=None, seed=None))
    return seen["parsed"], seen["pieces"]


def public_route(cx_text: str, dec_text: str):
    """The same through the public parsers, each piece resolved by `_piece`."""
    x = parse_complex(cx_text)
    parsed = parse_decomposition(dec_text)
    return parsed, (_piece(x, parsed.a_generators, "A"), _piece(x, parsed.b_generators, "B"))


def outcome(route, cx_text: str, dec_text: str) -> tuple:
    """The piece masks, fields, strategy and seed a route reads, or the
    class, text and line number of the error it raises."""
    try:
        parsed, (a, b) = route(cx_text, dec_text)
    except (ParseError, DecompositionError) as e:
        return type(e), str(e), getattr(e, "line", None)
    return bytes(a._mask), bytes(b._mask), parsed.fields, parsed.strategy, parsed.seed


def split_lines(route, *args) -> list[tuple[int, str]]:
    """The (number, line) of every line that `formats._simplices` splits
    into names while `route(*args)` runs."""
    split, inner = [], formats._simplices

    def spy(lines, known=None):
        if not known:
            split.extend(lines)
        return inner(lines, known)

    with mock.patch.object(formats, "_simplices", spy):
        route(*args)
    return split


def benchmark_module(name: str):
    """A module of the benchmark (`perfbench/`), imported to read its
    workloads; nothing there is changed."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    return importlib.import_module(name)


class TestDecReaders:
    """The CLI reads a `.dec` by the walk `parse_decomposition` makes, given
    X's line map: a piece line the complex file holds as written is its id,
    never split, and every other line is read as the public parser reads it."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(corpus_complexes())), st.randoms(use_true_random=False),
           st.sampled_from([None, None, "repeat", "unknown", "fields", "empty", "outside"]))
    def test_both_readers_agree(self, name, rng, fault):
        """On random covers of corpus complexes, with lines copied from the
        complex file or rewritten (re-spaced, reordered, tab-separated, a
        trailing comment), sections in any order, and one injected fault or
        none, the CLI's route and the public parser with `_piece` read the
        same piece masks, fields, strategy and seed, or raise the same
        exception with the same text and line number."""
        x = corpus_complexes()[name]

        def written(vertices) -> str:  # a line naming these vertices
            vs = rng.sample(vertices, len(vertices))
            return (rng.choice(["", " ", "\t"]) + rng.choice([" ", "  ", "\t", " \t"]).join(vs)
                    + rng.choice(["", " ", "  # a comment", "\t#"]))

        cx = {s.vertices: written(s.vertices) for s in x.maximal_simplices}
        cx_lines = list(cx.values())
        rng.shuffle(cx_lines)
        a, b = random_cover(x, rng)

        def piece_lines(piece: SimplicialComplex) -> list[str]:
            return [cx[s.vertices] if rng.random() < 0.7 else written(s.vertices)
                    for s in piece.maximal_simplices]

        sections = [["[A]", *piece_lines(a)], ["[B]", *piece_lines(b)]]
        if len(sections[0]) > 2 and rng.random() < 0.3:  # A over two sections
            cut = rng.randrange(2, len(sections[0]))
            sections.append(["[A]", *sections[0][cut:]])
            del sections[0][cut:]
        rng.shuffle(sections)
        top = rng.choice(list(x.maximal_simplices)).vertices
        fields = rng.choice([[], ["auto lexicographic"], [f"auto random {rng.randrange(9)}"],
                             [f"A: {top[0]} -> {' '.join(top)}", f"I: {top[-1]} -> {top[-1]}"]])
        pieces = list(sections)  # the [A] and [B] sections, before any other is added
        if fault in ("repeat", "fields"):
            section = rng.choice(pieces)
            section.insert(rng.randrange(1, len(section) + 1), " ".join([*top, top[0]]))
        if fault == "fields":  # before or after the bad piece line, by section order
            fields.insert(rng.randrange(len(fields) + 1), f"A: {top[0]}")
        if fault == "unknown":
            sections.insert(rng.randrange(len(sections) + 1), ["[C]", written(top)])
        if fault == "empty":
            head = rng.choice(["[A]", "[B]"])
            for section in sections:
                if section[0] == head:
                    del section[1:]
        if fault == "outside":
            section = rng.choice(pieces)
            section.insert(rng.randrange(1, len(section) + 1), f"{top[0]} w")
        if fields:
            sections.insert(rng.randrange(len(sections) + 1), ["[fields]", *fields])
        cx_text = "\n".join(cx_lines) + "\n"
        dec_text = "\n".join(line for section in sections for line in section) + "\n"
        assert outcome(cli_route, cx_text, dec_text) == outcome(public_route, cx_text, dec_text)

    @pytest.mark.parametrize("workload", ["torus", "cube", "path", "random"])
    def test_copied_lines_are_never_split(self, tmp_path, workload):
        """On each benchmark workload at benchmark size, whose `.dec` copies
        every [A]/[B] line from the complex file, the CLI's route splits no
        piece line; with each line's vertices reversed, so that the complex
        file holds none of them, it splits every piece line once, in file
        order.  The public parser splits every line either way."""
        run = benchmark_module("run")
        family = run.WORKLOADS[workload].make(1)
        rewritten = dataclasses.replace(family, a=[s[::-1] for s in family.a],
                                        b=[s[::-1] for s in family.b])
        numbers = [*range(2, len(family.a) + 2),
                   *range(len(family.a) + 3, len(family.a) + len(family.b) + 3)]
        for label, written, split in (("copied", family, []), ("reversed", rewritten, numbers)):
            cx, dec = run.families.write(written, tmp_path / label)
            cx_text, dec_text = cx.read_text(encoding="utf-8"), dec.read_text(encoding="utf-8")
            x = parse_complex(cx_text)
            assert [n for n, _ in split_lines(cli_route, cx_text, dec_text, x)] == split
            assert [n for n, _ in split_lines(parse_decomposition, dec_text)] == numbers


def reference_chain_columns(generators) -> list[list[dict[int, int]]]:
    """The columns of C_*(X) for the closure of `generators`, from
    `reference_table`: the column of a q-simplex holds (-1)^k at the row of
    its facet k, the facet's position among the (q-1)-simplices."""
    verts, facets, _ = reference_table(tuple(s.vertices) for s in generators)
    first: dict[int, int] = {}
    for i, vs in enumerate(verts):
        first.setdefault(len(vs), i)
    return [
        [{f - first[n - 1]: (-1) ** k for k, f in enumerate(facets[t])}
         for t, vs in enumerate(verts) if len(vs) == n]
        for n in range(2, len(verts[-1]) + 1)
    ]


class TestSimplicialChains:
    """`_simplicial_chains` builds C_*(X) from the facet table without the
    range check of `IntegerChainComplex.from_columns`; its columns are
    checked here against the reference table instead."""

    @staticmethod
    def check(x: SimplicialComplex) -> None:
        chains = _simplicial_chains(x)
        assert chains.ranks == x.f_vector()
        assert chains.columns == reference_chain_columns(x.maximal_simplices)

    def test_corpus_pieces_and_copies(self):
        for name, x in sorted(corpus_complexes().items()):
            self.check(x)
            for view, _ in cover_pieces(x, len(name)):
                self.check(view)
                self.check(copy_relabel(view, "B:").complex)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_hypothesis_complexes(self, rng):
        self.check(SimplicialComplex(random_generators(rng)))


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
        return calls_in_run(monkeypatch, _Table, "__init__", command,
                            GOLDEN / f"{name}.cx", GOLDEN / f"{name}.dec")

    def test_homology_closes_only_x(self, monkeypatch, capsys):
        assert self.tables_closed(monkeypatch, "homology", "torus") == 1
        assert "H_1 = Z^2" in capsys.readouterr().out

    def test_verify_closes_only_x(self, monkeypatch, capsys):
        """X~ is laid out by the prism formula, not closed."""
        assert self.tables_closed(monkeypatch, "verify", "octahedron") == 1
        assert "verdict: PASS" in capsys.readouterr().out

    def test_subcomplex_of_a_view_is_a_view(self):
        x = corpus_complexes()["sphere3"]
        face = x.subcomplex(["v0 v1 v2"])
        edge = face.subcomplex(["v1 v2"])
        assert edge._table is x._table
        assert edge == SimplicialComplex(["v1 v2"])
        assert edge.is_subcomplex_of(face) and not face.is_subcomplex_of(edge)


@pytest.mark.parametrize("name", ["octahedron", "torus"])
def test_only_greedy_fields_carry_a_clock(tmp_path, monkeypatch, capsys, name):
    """Greedy fields are certified by their coreduction clocks; pinned
    fields, and V and W over greedy or pinned fields, by the topological
    pass, so verify's own stages check no clock; no acyclic field is
    searched."""
    cx, dec = GOLDEN / f"{name}.cx", GOLDEN / f"{name}.dec"
    names = ("_ordered", "_closed_trajectory", "_descends")

    def passes_searches_clocks(command: str, dec: Path) -> tuple[int, int, int]:
        with monkeypatch.context() as m:
            calls = spied(m, morse, *names)
            assert main([command, "--complex", str(cx), "--decomposition", str(dec)]) == 0
        return tuple(map(len, calls))

    assert passes_searches_clocks("homology", dec) == (0, 0, 3)
    assert passes_searches_clocks("verify", dec) == (2, 0, 3)
    assert "verdict: PASS" in capsys.readouterr().out
    with monkeypatch.context() as m:
        calls = spied(m, morse, *names)
        _, d, _, _ = _load_decomposition(argparse.Namespace(
            complex=str(cx), decomposition=str(dec), strategy=None, seed=None))
    assert tuple(map(len, calls)) == (0, 0, 3)
    with monkeypatch.context() as m:
        calls = spied(m, morse, *names)
        xt = build_xtilde(d)
        assert check_iso_simplicial(xt).ok and check_main_iso(xt).ok
    assert tuple(map(len, calls)) == (2, 0, 0)
    fields = {piece: [(retag(sigma, copy.tag, ""), retag(tau, copy.tag, ""))
                      for sigma, tau in w.pairs]
              for piece, w, copy in (("A", d.w_a, d.a_bar), ("B", d.w_b, d.b_bar),
                                     ("I", d.w_i, d.iab_bar))}
    (tmp_path / "pinned.dec").write_text(decomposition_text(d.a, d.b, fields))
    assert passes_searches_clocks("homology", tmp_path / "pinned.dec") == (3, 0, 0)
    assert passes_searches_clocks("verify", tmp_path / "pinned.dec") == (5, 0, 0)
    assert "verdict: PASS" in capsys.readouterr().out


def greedy_and_clock(x: SimplicialComplex, strategy: str, seed: int | None):
    """greedy_gvf(x, strategy, seed) and the clock it was certified by."""
    clocks = []
    descends = morse._descends

    def spy(gvf, clock):
        clocks.append(clock)
        return descends(gvf, clock)

    with mock.patch.object(morse, "_descends", spy):
        gvf = greedy_gvf(x, strategy, seed)
    (clock,) = clocks
    return gvf, clock


def uncertified(x: SimplicialComplex, field: VectorField) -> GradientField:
    """The field on x's ids, not certified, for `morse._descends`."""
    gvf = object.__new__(GradientField)
    gvf.complex, gvf._up, gvf._down, gvf._lift = x, *field._arrays(x)
    return gvf


def check_greedy(x: SimplicialComplex, strategy: str, seed: int | None) -> None:
    gvf, clock = greedy_and_clock(x, strategy, seed)
    pairs, critical, steps = reference_greedy(x, strategy, seed)
    assert gvf.pairs == pairs
    assert gvf.critical() == critical
    assert morse._descends(gvf, clock)
    # the certifying clock orders x's cells exactly as the reference
    # removes them: one clock value per step, rising step by step
    ids = dict(zip(x.simplices(), itertools.chain.from_iterable(x._ids)))
    assert len(steps) == len(ids)
    ticks = sorted({(step, clock[ids[s]]) for s, step in steps.items()})
    assert all(s < t and c < d for (s, c), (t, d) in zip(ticks, ticks[1:]))
    assert reference_closed_trajectory(gvf.field, x) is None


def torus_times_circle() -> SimplicialComplex:
    """The staircase triangulation of T^2 x S^1, a table of 546 ids, so
    that most of its ids are above 256, past CPython's cached small ints."""
    return product(seven_vertex_torus(), corpus_complexes()["circle"])


def small_b(x: SimplicialComplex) -> tuple[SimplicialComplex, SimplicialComplex]:
    """A cover of x whose B is every 40th maximal simplex and A the rest,
    so that A n B is a small view scattered over x's table."""
    maximal = x.maximal_simplices
    return (x.subcomplex(s for k, s in enumerate(maximal) if k % 40),
            x.subcomplex(maximal[::40]))


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

    @pytest.mark.parametrize("strategy,seed", STRATEGIES)
    def test_a_small_i_copy_of_a_large_table(self, strategy, seed):
        """The heap of ids (lexicographic) and the heap of positions
        (random) on a copy whose ids are few and far apart, some above 256."""
        x = torus_times_circle()
        copy = build_decomposition(x, *small_b(x)).iab_bar.complex
        ids = list(itertools.chain.from_iterable(copy._ids))
        assert 10 * len(ids) < len(x._table) and ids[-1] > 256
        check_greedy(copy, strategy, seed)

    @pytest.mark.parametrize("strategy,seed", STRATEGIES)
    def test_a_reversed_clock_falls_back_to_the_pass(self, monkeypatch, strategy, seed):
        passes, searched = spied(monkeypatch, morse, "_ordered", "_closed_trajectory")
        continuing = 0
        for name, x in sorted(corpus_complexes().items()):
            gvf, clock = greedy_and_clock(x, strategy, seed)
            arcs = morse._arcs(gvf)
            continuing += any(nu >= 0 for tau, sigma in enumerate(gvf._down) if sigma >= 0
                              for _, _, nu in arcs(tau))
            again = GradientField._certified(
                x, gvf._up, gvf._down, gvf._lift, clock=[-c for c in clock]
            )
            assert again._critical_ids == gvf._critical_ids
        assert len(passes) == continuing > 0
        assert not searched


def shared(every: list[int], ids) -> bool:
    """Whether each id is the very int object at its place in `every`, a
    table's list of its ids, rather than an equal int made elsewhere."""
    return all(i is every[i] for i in ids)


def check_one_object_per_id(x: SimplicialComplex, a: SimplicialComplex,
                            b: SimplicialComplex) -> None:
    """Every id that x's table, its pieces, their copies and greedy fields,
    and X~ hold is drawn from its table's list."""
    flat, table = itertools.chain.from_iterable, x._table
    every = table.ids
    assert every == list(range(len(table)))
    assert shared(every, table.index.values())
    assert shared(every, flat(table.facets)) and shared(every, flat(table.cofacets))
    d = build_decomposition(x, a, b)
    copies = [c.complex for c in (d.a_bar, d.b_bar, d.iab_bar) if c is not None]
    for view in [x, d.a, d.b, d.iab, *copies]:
        if view is not None:
            assert shared(every, flat(view._ids))
    for copy in copies:
        for strategy, seed in STRATEGIES[:2]:
            gvf, clock = greedy_and_clock(copy, strategy, seed)
            assert shared(every, [i for i in gvf._up + gvf._down if i >= 0])
            assert shared(every, flat(gvf._critical_ids)) and shared(every, clock)
    xt = build_xtilde(d)
    glued = xt.complex._table
    assert glued.ids == list(range(len(glued)))
    assert shared(glued.ids, flat(xt.complex._ids)) and shared(glued.ids, flat(glued.facets))
    assert shared(glued.ids, [j for own in xt._copies for j in own if j >= 0])
    assert shared(glued.ids, flat(flat(xt._members.values())))
    assert shared(every, xt._ground)


class TestOneObjectPerId:
    @pytest.mark.parametrize("name", [*sorted(corpus_complexes()), "torus x circle"])
    def test_corpus_covers(self, name):
        x = torus_times_circle() if name == "torus x circle" else corpus_complexes()[name]
        rng = random.Random(len(name))
        covers = [random_cover(x, rng) for _ in range(3)]
        for a, b in covers + [small_b(x)] if len(x) > 256 else covers:
            check_one_object_per_id(x, a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_hypothesis_complexes(self, rng):
        x = SimplicialComplex(random_generators(rng))
        if len(x.maximal_simplices) > 1:
            check_one_object_per_id(x, *random_cover(x, rng))


def check_clocks(x: SimplicialComplex, rng: random.Random, tally: collections.Counter) -> None:
    """`_descends` and `reference_descends` agree on a greedy field of x
    and on a random matching, each with the greedy clock, the clock
    reversed, three shuffles of the ids and a clock of many ties; `tally`
    counts (whether the field has a closed trajectory, verdict)."""
    greedy, clock = greedy_and_clock(x, "lexicographic", None)
    n = len(x._table)
    forged = [list(range(n)) for _ in range(3)]
    for ids in forged:
        rng.shuffle(ids)
    forged.append([rng.randrange(3) for _ in range(n)])
    matching = random_matching(x, rng)
    cyclic = reference_closed_trajectory(matching, x) is not None
    for gvf, closed in ((greedy, False), (uncertified(x, matching), cyclic)):
        for c in (clock, [-t for t in clock], *forged):
            verdict = morse._descends(gvf, c)
            assert verdict == reference_descends(gvf, c)
            tally[closed, verdict] += 1


class TestClockAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_hypothesis_complexes(self, rng):
        check_clocks(SimplicialComplex(random_generators(rng)), rng, collections.Counter())

    def test_corpus_sees_every_verdict(self):
        rng, tally = random.Random(17), collections.Counter()
        for x in corpus_complexes().values():
            for _ in range(10):
                check_clocks(x, rng, tally)
        assert tally[False, True] and tally[False, False] and tally[True, False]
        assert not tally[True, True]  # no clock descends along a closed trajectory


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
            # no clock descends along a closed trajectory, and a forged one
            # leaves the verdict and the witness to the search
            ids = list(range(len(x._table)))
            shuffled = ids[:]
            random.Random(len(ids)).shuffle(shuffled)
            for forged in (ids, ids[::-1], shuffled):
                assert not morse._descends(uncertified(x, field), forged)
                with pytest.raises(NotAcyclicError) as e:
                    GradientField._certified(x, *field._arrays(x), clock=forged)
                assert e.value.witness == want
        assert cyclic > 20 and acyclic > 20

    def test_tagged_copy(self):
        x = corpus_complexes()["torus"]
        copy = copy_relabel(x, "A:")
        rng = random.Random(2)
        for _ in range(30):
            field = random_matching(x, rng)
            pushed = VectorField((retag(s, "", "A:"), retag(t, "", "A:")) for s, t in field)
            want = reference_closed_trajectory(pushed, copy.complex)
            assert is_acyclic(pushed, copy.complex) == (want is None)
            assert is_acyclic(field, x) == (want is None)
            if len(field):  # the copy's members carry the tag
                with pytest.raises(FieldError, match="not in the complex"):
                    is_acyclic(field, copy.complex)


class TestOrderedAgainstReference:
    """The topological pass `morse._ordered` against the reference search,
    on random matchings, and on the fields of X~ that `verify` certifies."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_matchings_and_tagged_copies(self, rng):
        x = SimplicialComplex(random_generators(rng))
        copy = copy_relabel(x, "A:")
        for _ in range(5):
            field = random_matching(x, rng)
            pushed = VectorField((retag(s, "", "A:"), retag(t, "", "A:")) for s, t in field)
            assert morse._ordered(uncertified(x, field)) == (
                reference_closed_trajectory(field, x) is None
            )
            assert morse._ordered(uncertified(copy.complex, pushed)) == (
                reference_closed_trajectory(pushed, copy.complex) is None
            )

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["lexicographic", "random"]))
    def test_v_and_w_on_hypothesis_covers(self, rng, strategy):
        x = SimplicialComplex(random_generators(rng))
        a, b = random_cover(x, rng)
        xt = build_xtilde(build_decomposition(x, a, b, strategy=strategy,
                                              seed=rng.randint(0, 99)))
        assert morse._ordered(_build_v_field(xt))
        assert morse._ordered(_build_w_field(xt))


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
                piece: [(retag(sigma, copy.tag, ""), retag(tau, copy.tag, ""))
                        for sigma, tau in w.pairs]
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
