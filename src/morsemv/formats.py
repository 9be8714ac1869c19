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

The parsers return vertex tuples, sorted for a complex line or an [A]/[B]
line and as written for a field pair's ends (the order is the orientation an
error shows); a `Simplex` is built only to word an error.

Generator names on the command line are the tagged comma-joined vertex
lists used in reports, e.g. `A:v5` or `I:v2,I:v3`; the tag prefix (A/B/I)
names the piece and selects FromA / FromB / Shifted.
"""
from __future__ import annotations

from .complexes import Simplex, SimplicialComplex, _Table
from .errors import ComplexError, ParseError
from .mv import FROM_A, FROM_B, SHIFTED, _Record

__all__ = [
    "parse_complex",
    "parse_decomposition",
    "parse_generator_name",
    "DecompositionFile",
]

_TAG_OF_PREFIX = {"A": FROM_A, "B": FROM_B, "I": SHIFTED}


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _checked(tokens: list[str], number: int) -> list[str]:
    """The vertex names of one simplex; `Simplex` words a repeated one."""
    if len(set(tokens)) != len(tokens):
        try:
            Simplex(tokens)
        except ComplexError as e:
            raise ParseError(str(e), line=number) from None
    return tokens


def _vertices(line: str, number: int) -> tuple[str, ...]:
    """The sorted vertex names of a line holding one simplex."""
    return tuple(sorted(_checked(line.split(), number)))


def parse_complex(text: str) -> SimplicialComplex:
    """Read a complex file (maximal simplices, one per line)."""
    generators = [_vertices(line, number) for number, line in _content_lines(text)]
    if not generators:
        raise ParseError("no simplices in complex file")
    return SimplicialComplex._of(_Table.of_names(generators))


Vertices = tuple[str, ...]


class DecompositionFile(_Record):
    """The parsed content of a decomposition file: the generators of A and
    B as sorted vertex tuples; `fields` maps piece names to explicit pair
    lists, each end's vertices as written; `strategy`/`seed` carry an `auto`
    line if any.  Mutable, so not hashable."""

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
    out = DecompositionFile()
    section = None
    for number, line in _content_lines(text):
        if line in ("[A]", "[B]", "[fields]"):
            section = line[1:-1]
            continue
        if line.startswith("["):
            raise ParseError(f"unknown section {line}", line=number)
        if section is None:
            raise ParseError("content before any [A]/[B]/[fields] section", line=number)
        if section == "A":
            out.a_generators.append(_vertices(line, number))
        elif section == "B":
            out.b_generators.append(_vertices(line, number))
        else:
            _parse_fields_line(out, line, number)
    if not out.a_generators:
        raise ParseError("decomposition file has no [A] simplices")
    if not out.b_generators:
        raise ParseError("decomposition file has no [B] simplices")
    return out


def _parse_fields_line(out: DecompositionFile, line: str, number: int) -> None:
    if line.startswith("auto"):
        if out.fields:
            raise ParseError("auto line cannot follow explicit field pairs", line=number)
        if out.strategy is not None:
            raise ParseError("more than one auto line", line=number)
        words = line.split()
        if len(words) >= 2 and words[1] in ("lex", "lexicographic") and len(words) == 2:
            out.strategy = "lexicographic"
        elif len(words) >= 2 and words[1] == "random" and len(words) <= 3:
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
        return
    if out.strategy is not None:
        raise ParseError("explicit field pairs cannot follow an auto line", line=number)
    piece, colon, rest = line.partition(":")
    lhs, arrow, rhs = rest.partition("->")
    sigma, tau, piece = lhs.split(), rhs.split(), piece.strip()
    if not (colon and arrow and sigma and tau) or "->" in rhs or piece not in ("A", "B", "I"):
        raise ParseError("field lines look like 'A: v2 -> v2 v5'", line=number)
    pair = (tuple(_checked(sigma, number)), tuple(_checked(tau, number)))
    out.fields.setdefault(piece, []).append(pair)


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
