"""Parsers for the complex, decomposition, and generator-name formats."""
from __future__ import annotations

import pytest

from morsemv import ParseError, Simplex, parse_complex, parse_decomposition
from morsemv.formats import DecompositionFile, parse_generator_name


class TestParseComplex:
    def test_basic(self):
        x = parse_complex("v0 v1 v2\nv2 v3\n")
        assert x.f_vector() == (4, 4, 1)

    def test_comments_and_blank_lines(self):
        x = parse_complex(
            "# a triangle\n\nv0 v1   v2   # inline comment\n   \n"
        )
        assert x.f_vector() == (3, 3, 1)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as e:
            parse_complex("v0 v1\nv0 v1\nv2 v2\n")
        assert "line 3" in str(e.value)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_complex("# nothing here\n")


class TestParseDecomposition:
    GOOD = """\
[A]
v0 v1 v5
v1 v2 v5
[B]
v0 v1 v4   # comment
[fields]
A: v0 -> v0 v5
A: v1 -> v1 v5
I: v0 -> v0 v1
"""

    def test_full_file(self):
        out = parse_decomposition(self.GOOD)
        assert out.a_generators == [("v0", "v1", "v5"), ("v1", "v2", "v5")]
        assert out.b_generators == [("v0", "v1", "v4")]
        assert out.fields["A"] == [
            (("v0",), ("v0", "v5")),
            (("v1",), ("v1", "v5")),
        ]
        assert out.fields["I"] == [(("v0",), ("v0", "v1"))]
        assert out.strategy is None and out.seed is None

    def test_generators_and_pair_ends_as_written(self):
        out = parse_decomposition("[A]\nv5 v1 v0\n[B]\nv4\n[fields]\nA: v0 -> v5 v0\n")
        assert out.a_generators == [("v5", "v1", "v0")]
        assert out.fields["A"] == [(("v0",), ("v5", "v0"))]

    def test_auto_lines(self):
        out = parse_decomposition("[A]\np\n[B]\nq\n[fields]\nauto lexicographic\n")
        assert out.strategy == "lexicographic" and out.seed is None
        out = parse_decomposition("[A]\np\n[B]\nq\n[fields]\nauto random 99\n")
        assert out.strategy == "random" and out.seed == 99
        out = parse_decomposition("[A]\np\n[B]\nq\n[fields]\nauto random\n")
        assert out.strategy == "random" and out.seed is None

    def test_fields_section_optional(self):
        out = parse_decomposition("[A]\np\n[B]\nq\n")
        assert out.fields == {} and out.strategy is None

    def test_result_behaves_as_a_dataclass(self):
        # a plain class (no `dataclasses` at CLI start): fresh defaults,
        # equality and repr on every field, mutable, so not hashable
        out = parse_decomposition("[A]\np q\n[B]\nq\n")
        assert out == DecompositionFile([("p", "q")], [("q",)])
        assert out != DecompositionFile([("p", "q")], [("q",)], seed=1)
        assert DecompositionFile().a_generators is not DecompositionFile().a_generators
        assert repr(out) == ("DecompositionFile(a_generators=[('p', 'q')], "
                             "b_generators=[('q',)], fields={}, strategy=None, seed=None)")
        out.seed = 5
        assert out.seed == 5
        with pytest.raises(TypeError):
            hash(out)

    @pytest.mark.parametrize("text,fragment", [
        ("v0 v1\n[A]\np\n[B]\nq\n", "before any"),
        ("[A]\np\n[B]\nq\n[huh]\n", "unknown section"),
        ("[A]\np\n[B]\nq\n[fields]\nC: v0 -> v0 v1\n", "field lines"),
        ("[A]\np\n[B]\nq\n[fields]\nA: v0 v0 v1\n", "field lines"),
        ("[A]\np\n[B]\nq\n[fields]\nA: -> v0 v1\n", "field lines"),
        ("[A]\np\n[B]\nq\n[fields]\nA: v0 -> v0 v1 -> v4\n", "field lines"),
        ("[A]\np\n[B]\nq\n[fields]\nauto random xyz\n", "bad seed"),
        ("[A]\np\n[B]\nq\n[fields]\nauto sideways\n", "auto line"),
        ("[A]\np\n[B]\nq\n[fields]\nautomatic lex\n", "field lines"),
        ("[A]\np\n[B]\nq\n[fields]\nautopilot random 5\n", "field lines"),
        ("[A]\np\n[B]\nq\n[fields]\nauto lexicographic\nauto random 1\n",
         "more than one auto"),
        ("[A]\np\n[B]\nq\n[fields]\nA: v0 -> v0 v1\nauto random 1\n",
         "cannot follow"),
        ("[A]\np\n[B]\nq\n[fields]\nauto random 1\nA: v0 -> v0 v1\n",
         "cannot follow"),
        ("[B]\nq\n", "no [A]"),
        ("[A]\np\n", "no [B]"),
    ])
    def test_rejects_malformed_files(self, text, fragment):
        with pytest.raises(ParseError) as e:
            parse_decomposition(text)
        assert fragment in str(e.value)

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as e:
            parse_decomposition("[A]\np\n[B]\nq q\n")
        assert "line 4" in str(e.value)


class TestParseGeneratorName:
    def test_tagged_names(self):
        assert parse_generator_name("A:v5") == ("FromA", Simplex("A:v5"))
        assert parse_generator_name("B:v4") == ("FromB", Simplex("B:v4"))
        assert parse_generator_name("I:v2,I:v3") == (
            "Shifted", Simplex("I:v2 I:v3"),
        )

    def test_whitespace_tolerated(self):
        assert parse_generator_name("I:v2, I:v3")[1] == Simplex("I:v2 I:v3")

    @pytest.mark.parametrize("token", [
        "v5",            # no tag
        "A:v5,B:v4",     # mixed copies
        "X:v1",          # unknown copy
        "A:v5,A:v5",     # repeated vertex
        "",
    ])
    def test_rejects_bad_names(self, token):
        with pytest.raises(ParseError):
            parse_generator_name(token)
