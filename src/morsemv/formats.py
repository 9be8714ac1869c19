"""Parsers for the on-disk formats consumed by the command line.

Complex files list one maximal simplex per line, vertices separated by
whitespace; `#` starts a comment and blank lines are skipped:

    # the octahedron
    v0 v1 v4
    v0 v1 v5
    ...

Decomposition files name the two pieces (maximal simplices, in the vertex
names of X) and optionally pin the three gradient fields:

    [A]
    v0 v1 v5
    ...
    [B]
    v0 v1 v4
    ...
    [fields]
    A: v2 -> v2 v5        # pair (sigma, tau) of the field on A
    I: v3 -> v0 v3        # pieces are A, B, I (the intersection)

The `[fields]` section may instead hold a single strategy line,
`auto lexicographic` or `auto random <seed>`, and may be omitted entirely;
pieces without explicit pairs fall back to the greedy strategy.

The parsers return every vertex list as written: an [A]/[B] line, a field
pair's end (whose order is the orientation an error shows) and a complex
line alike.  A file is read in one pass: its content lines are listed at
once, and each section's lines become vertex tuples in one comprehension,
which checks for a repeated name inline.  X's id table reads each by its
one rule, ranking the names and sorting the ranks, so no line's names are
sorted as strings; a `Simplex` is built only to word an error.

X's table also keeps each content line of the complex file, the text
left once the comment and surrounding whitespace are cut
(`_Table.line_ids`).  The command line reads a decomposition file by the
same walk over its sections as `parse_decomposition`
(`_read_decomposition`), given that map: an [A]/[B] line that the complex
file holds as written is one probe, its id, and is never split; any other
line is split, checked and ranked, with the same errors in the same
order.  The first [A] line decides for X: the map is built if the
complex file holds that line, and else X drops its lines and every line
is split.

Generator names on the command line are the tagged comma-joined vertex
lists used in reports, e.g. `A:v5` or `I:v2,I:v3`; the tag prefix (A/B/I)
names the piece and selects FromA / FromB / Shifted.
"""
from __future__ import annotations

from typing import Callable

from .complexes import Simplex, SimplicialComplex, _Record, _Table
from .errors import ComplexError, ParseError
from .mv import FROM_A, FROM_B, SHIFTED

__all__ = [
    "parse_complex",
    "parse_decomposition",
    "parse_generator_name",
    "DecompositionFile",
]

_TAG_OF_PREFIX = {"A": FROM_A, "B": FROM_B, "I": SHIFTED}


def _content_lines(text: str) -> list[tuple[int, str]]:
    """The (line number, content) of every line with content left once its
    comment and surrounding whitespace are cut."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [(number, line) for number, raw in enumerate(lines, start=1) if (line := raw.strip())]


def _checked(tokens: tuple[str, ...], number: int) -> tuple[str, ...]:
    """The vertex names of one simplex, which the parsers call only for a
    line that repeats a name: `Simplex` words the error."""
    try:
        Simplex(tokens)
    except ComplexError as e:
        raise ParseError(str(e), line=number) from None
    return tokens


def _simplices(lines: list[tuple[int, str]], known: dict[str, int] | None = None) -> list:
    """The vertex names of each line, as written, each name once; a line
    that `known` holds as written is its id there instead, never split."""
    if known:
        return [known[line] if line in known else _simplices([(n, line)])[0] for n, line in lines]
    return [
        vs if len(set(vs := tuple(line.split()))) == len(vs) else _checked(vs, number)
        for number, line in lines
    ]


def parse_complex(text: str) -> SimplicialComplex:
    """Read a complex file (maximal simplices, one per line)."""
    lines = _content_lines(text)
    generators = _simplices(lines)
    if not generators:
        raise ParseError("no simplices in complex file")
    strings = [line for _, line in lines]
    del lines  # freed before the closure, whose collector passes, if on, would walk its pairs
    return SimplicialComplex._of(_Table.of_names(generators, strings))


Vertices = tuple[str, ...]


class DecompositionFile(_Record):
    """The parsed content of a decomposition file, every vertex list as
    written: the generators of A and B as vertex tuples; `fields` maps piece
    names to explicit pair lists, each end a vertex tuple; `strategy`/`seed`
    carry an `auto` line if any.  Mutable, so not hashable."""

    __slots__ = _fields = ("a_generators", "b_generators", "fields", "strategy", "seed")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, a_generators: list[Vertices] | None = None,
                 b_generators: list[Vertices] | None = None,
                 fields: dict[str, list[tuple[Vertices, Vertices]]] | None = None,
                 strategy: str | None = None, seed: int | None = None):
        self.a_generators = [] if a_generators is None else a_generators
        self.b_generators = [] if b_generators is None else b_generators
        self.fields = {} if fields is None else fields
        self.strategy = strategy
        self.seed = seed


def parse_decomposition(text: str) -> DecompositionFile:
    return _read_decomposition(text)


def _read_decomposition(text: str, line_ids: Callable | None = None) -> DecompositionFile:
    """The sections of a decomposition file, read in file order.  Given
    `line_ids` (X's `_Table.line_ids`), it is called once with the first
    [A] line, and an [A]/[B] line that the map it returns holds as written
    is its id in X, never split; every other line is read as
    `parse_decomposition` reads it, with the same errors in the same order."""
    out = DecompositionFile()
    lines = _content_lines(text)
    heads = [k for k, (_, line) in enumerate(lines) if line[0] == "["]
    if lines and (not heads or heads[0]):
        raise ParseError("content before any [A]/[B]/[fields] section", line=lines[0][0])
    ends = heads[1:] + [len(lines)]
    firsts = [h + 1 for h, end in zip(heads, ends) if h + 1 < end and lines[h][1] == "[A]"]
    known = line_ids(lines[firsts[0]][1]) if line_ids and firsts else None
    for h, end in zip(heads, ends):
        number, head = lines[h]
        if head == "[fields]":
            _parse_fields(out, lines[h + 1:end])
        elif head in ("[A]", "[B]"):
            generators = out.a_generators if head == "[A]" else out.b_generators
            generators += _simplices(lines[h + 1:end], known)
        else:
            raise ParseError(f"unknown section {head}", line=number)
    if not out.a_generators:
        raise ParseError("decomposition file has no [A] simplices")
    if not out.b_generators:
        raise ParseError("decomposition file has no [B] simplices")
    return out


def _parse_fields(out: DecompositionFile, lines: list[tuple[int, str]]) -> None:
    """The lines of a `[fields]` section, each an auto line or a pair line."""
    for number, line in lines:
        if line.startswith("auto") and line.split(None, 1)[0] == "auto":
            # any other first word makes a pair line
            _parse_auto_line(out, line.split(), number)
            continue
        if out.strategy is not None:
            raise ParseError("explicit field pairs cannot follow an auto line", line=number)
        piece, colon, rest = line.partition(":")
        lhs, arrow, rhs = rest.partition("->")
        sigma, tau, piece = tuple(lhs.split()), tuple(rhs.split()), piece.strip()
        if not (colon and arrow and sigma and tau) or "->" in rhs or piece not in ("A", "B", "I"):
            raise ParseError("field lines look like 'A: v2 -> v2 v5'", line=number)
        if len(set(sigma)) != len(sigma):
            _checked(sigma, number)
        if len(set(tau)) != len(tau):
            _checked(tau, number)
        out.fields.setdefault(piece, []).append((sigma, tau))


def _parse_auto_line(out: DecompositionFile, words: list[str], number: int) -> None:
    if out.fields:
        raise ParseError("auto line cannot follow explicit field pairs", line=number)
    if out.strategy is not None:
        raise ParseError("more than one auto line", line=number)
    if words[1:] in (["lex"], ["lexicographic"]):
        out.strategy = "lexicographic"
    elif words[1:2] + words[3:] == ["random"]:  # then at most a seed
        out.strategy = "random"
        if len(words) == 3:
            try:
                out.seed = int(words[2])
            except ValueError:
                raise ParseError(f"bad seed {words[2]!r}", line=number) from None
    else:
        raise ParseError(
            "auto line must be 'auto lexicographic' or 'auto random [seed]'",
            line=number,
        )


def parse_generator_name(token: str) -> tuple[str, Simplex]:
    """Split a tagged generator name like 'I:v2,I:v3' into its MV tag and
    its (copy-named) simplex."""
    vertices = [v.strip() for v in token.split(",")]
    prefixes = {v.partition(":")[0] for v in vertices}
    if len(prefixes) != 1 or not prefixes <= set(_TAG_OF_PREFIX):
        raise ParseError(
            f"generator name {token!r} must be comma-joined vertices of one "
            "tagged copy (A:, B: or I:)"
        )
    try:
        simplex = Simplex(vertices)
    except ComplexError as e:
        raise ParseError(str(e)) from None
    return _TAG_OF_PREFIX[prefixes.pop()], simplex
