"""Finite abstract simplicial complexes with integer orientations.

Vertices are strings.  An oriented q-simplex is written [v_0, ..., v_q]; two
orderings of the same vertex set give the same simplex up to the sign of the
permutation relating them.  `Simplex` keeps a canonical representative:
vertices strictly increasing (plain string order) and an explicit sign in
{+1, -1}, with the parity of the sorting permutation folded into the sign.

The incidence number of a facet follows the usual convention: for
tau = [v_0, ..., v_q],

    <tau, tau minus v_i> = (-1)^i,

extended to oriented simplices by multiplying both signs, and zero whenever
sigma is not a facet of tau.  With this convention the simplicial boundary
satisfies boundary-of-boundary = 0 (see Hatcher, "Algebraic Topology", ch. 2).

A `SimplicialComplex` closes a finite generating family downward into an
id table, the one place members are stored.  Its vertices are ranked names
(a rank is the position among the sorted names) and each member one int,
its key: its ranks packed behind a leading bit, so that ascending keys,
and so ids, follow (dimension, vertex tuple) order, the canonical order of
every report.  Names reach ids by one rule: a generator, or a member
looked up (`SimplicialComplex._ids_of`, for a batch such as a piece's
lines or a field's pair ends; `_id` is its one-member case), may name its
vertices in any order; they are ranked, then the ranks sorted, never
sorted as strings, and packed into a key.
The closure is one pass from the top dimension down, on keys: it sorts
each level and drops each vertex of it once, by shifts and masks; the
same drop lists give the facet ids.  A member's vertex tuple is decoded
from its key only to name it.  The table lists each member's facets as ids in vertex-drop
order, so facet k of a positive tau has <tau, facet k> = (-1)^k, and
each member's cofacets as ascending ids.  It keeps one int object per
id, and every list of ids (its index, facets and cofacets, the views,
the fields of `morse` and their clocks) holds those objects, so an id
costs one int however many lists name it.
That table is the single source of facet order and boundary sign; the
public accessors `facets` and `cofacets` read it, and the field and
trajectory code in `morse` and `mv` walks its ids directly.

Subcomplexes are *views* of one table: `subcomplex` and `intersection`
return complexes that share the table and differ only in a membership mask,
and a tagged copy (`copy_relabel`) shares the mask, ids and size too,
naming every vertex v as tag + v.  A view is a `SimplicialComplex` in every
respect and equals the complex closed afresh from the same generators.
Computation runs on ids; `_Table.simplex` names a member only for what is
reported, afresh on every request, and no name is cached or carried from
one copy to another.
"""
from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, Sequence

from .errors import ComplexError

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "ComplexCopy",
    "build_complex",
    "incidence",
    "union",
    "intersection",
    "copy_relabel",
]


class _Record:
    """A record with the equality, hash and repr a dataclass would give it
    on the fields `_fields`, and whose `__slots__` list its constructor's
    parameters in order.  Every record of the package is one, and no
    module imports `dataclasses`, which imports `inspect`: a fresh process
    would pay for both on every command, `verify` included."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, s) for s in self.__slots__])


class _FrozenRecord(_Record):
    """A `_Record` whose fields are set once, by its constructor."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _sort_parity(values: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
    """Sort `values`, returning (sorted tuple, parity sign of the permutation)."""
    if all(map(str.__lt__, values, values[1:])):
        return values, 1  # already strictly increasing: the identity
    decorated = sorted(range(len(values)), key=lambda i: values[i])
    # Count inversions of the permutation taking input order to sorted order.
    inversions = 0
    for i in range(len(decorated)):
        for j in range(i + 1, len(decorated)):
            if decorated[i] > decorated[j]:
                inversions += 1
    return tuple(values[i] for i in decorated), (-1) ** inversions


class Simplex:
    """An oriented simplex over string vertex names.

    >>> Simplex("v0 v1")
    Simplex('v0 v1')
    >>> Simplex(["v1", "v0"])          # odd permutation folds into the sign
    -Simplex('v0 v1')
    >>> Simplex("v0 v1").dim
    1
    >>> abs(-Simplex("v0 v1")) == Simplex("v0 v1")
    True
    """

    __slots__ = ("vertices", "sign")

    def __init__(self, vertices: Iterable[str] | str, sign: int = 1):
        if isinstance(vertices, str):
            vertices = vertices.split()
        vs = tuple(vertices)
        if not vs:
            raise ComplexError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, str) or not v:
                raise ComplexError(f"vertex names must be nonempty strings, got {v!r}")
        if len(set(vs)) != len(vs):
            raise ComplexError(f"repeated vertex in simplex {vs!r}")
        if sign not in (1, -1):
            raise ComplexError(f"orientation sign must be +1 or -1, got {sign!r}")
        ordered, parity = _sort_parity(vs)
        self.vertices: tuple[str, ...] = ordered
        self.sign: int = sign * parity

    # -- basic protocol ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def key(self) -> tuple[int, tuple[str, ...]]:
        """Sort key: dimension first, then vertex tuple.  Ignores orientation."""
        return (len(self.vertices), self.vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Simplex)
            and self.vertices == other.vertices
            and self.sign == other.sign
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.sign))

    def __lt__(self, other: "Simplex") -> bool:
        if not isinstance(other, Simplex):
            return NotImplemented
        return (self.key, self.sign) < (other.key, other.sign)

    def __neg__(self) -> "Simplex":
        return Simplex(self.vertices, -self.sign)

    def __abs__(self) -> "Simplex":
        """The positively oriented simplex on the same vertices."""
        return self if self.sign == 1 else Simplex(self.vertices, 1)

    def __repr__(self) -> str:
        body = f"Simplex({' '.join(self.vertices)!r})"
        return body if self.sign == 1 else "-" + body

    def __str__(self) -> str:
        body = "[" + " ".join(self.vertices) + "]"
        return body if self.sign == 1 else "-" + body

    # -- combinatorics -----------------------------------------------------

    def facets(self) -> tuple["Simplex", ...]:
        """The positively oriented codimension-1 faces in vertex-drop order:
        the k-th drops the k-th vertex."""
        if self.dim == 0:
            return ()
        vs = self.vertices
        return tuple(_canonical(vs[:i] + vs[i + 1 :]) for i in range(len(vs)))

    def is_face_of(self, other: "Simplex") -> bool:
        return set(self.vertices) <= set(other.vertices)


def _names(s: Simplex | str | Iterable[str]) -> Iterable[str]:
    """The vertex names of a Simplex, of a string of names, or of names."""
    return s.vertices if isinstance(s, Simplex) else s.split() if isinstance(s, str) else s


def _canonical(vertices: tuple[str, ...]) -> Simplex:
    """The positive simplex on valid, increasing vertices, built unchecked."""
    s = object.__new__(Simplex)
    s.vertices, s.sign = vertices, 1
    return s


def incidence(tau: Simplex, sigma: Simplex) -> int:
    """The incidence number <tau, sigma> in {+1, -1, 0}.

    >>> incidence(Simplex("v0 v1"), Simplex("v1"))
    1
    >>> incidence(Simplex("v0 v1"), Simplex("v0"))
    -1
    >>> incidence(Simplex("v0 v1 v2"), Simplex("v0 v2"))
    -1
    >>> incidence(Simplex("v0 v1"), Simplex("v2"))
    0
    """
    if tau.dim != sigma.dim + 1:
        return 0
    sub = set(sigma.vertices)
    if not sub <= set(tau.vertices):
        return 0
    (extra,) = (v for v in tau.vertices if v not in sub)
    i = tau.vertices.index(extra)
    return tau.sign * sigma.sign * (-1) ** i


class _Table:
    """The id table of a closed complex: every member once, as one int, its
    key, with ids ascending by key, which is ascending by (dimension,
    vertex tuple).

    Vertex v is named `names[v]`, and `rank` maps a name back; ranks keep
    the order of names.  A rank takes `width` bits,
    s = max(1, (|V| - 1).bit_length()), and the member on ranks
    v_0 < ... < v_k has the key 1 << s(k+1) | v_0 << sk | ... | v_k
    (`_key`).  The leading bit puts dimension first, so ascending keys are
    ascending (dimension, vertex tuple), and keeps edge (0, 1) apart from
    vertex 1.  `keys[i]` is the key of member i and `index` maps a key back
    to its id; a key has no fixed size, so the rule holds at any width and
    dimension.  `start[q]` is the first id of dimension q (`start[-1]` the
    member count), `facets[i]` the facet ids of member i in vertex-drop
    order, and `cofacets[i]`, listed on first use, the ids having i as a
    facet, ascending.

    The closure runs once, top down, on keys: each level is sorted, its drop
    lists (one per dropped position, aligned with the sorted level, each
    key's by shifts and masks, `_drops`) fill the level below as a set of
    keys, and, once every member has an id, become the level's facets.
    Vertex tuples are decoded from the keys (`_ranks`) only to name a
    member: `simplices` is the one place members become `Simplex`es, a batch
    in one pass, with every vertex named tag + its name (`simplex` is its
    one-member case); it builds fresh ones on every call and caches none.
    `verts`, every member's tuple, is decoded afresh on each read, and no
    command reads it.  `verify` lays out the table of its glued complex by
    its own rule (`verify._PrismTable`): grouped by dimension, with `start`,
    but not sorted, its tuples read from its cells and its `index` keyed by
    the same rule.  A table read from the lines of a complex file keeps
    each generator's line and key, and `line_ids` maps a line to its id.

    `ids` is `list(range(n))`, the one int object of each id, and every
    other id is drawn from it: the values of `index`, so the facet tuples
    and the line map, the ids of every view (`SimplicialComplex._setup`),
    the cofacet lists and `morse.greedy_gvf`'s heap, arrays and clock;
    `verify._PrismTable` keeps its own list, from which X~'s ids are
    drawn."""

    __slots__ = ("names", "rank", "width", "keys", "ids", "index", "start", "facets",
                 "_cofacets", "_by_line")

    def __init__(self, keys: Iterable[int], names: list[str]):
        self.names, self.rank = names, dict(zip(names, range(len(names))))
        self.width = s = _width(len(names))
        gens = sorted(set(keys))
        top = (gens[-1].bit_length() - 1) // s
        ordered: list[list[int]] = [[]] * (top + 1)
        dropped: list[list[list[int]]] = [[]] * (top + 1)
        lower, hi = set(), len(gens)
        for n in range(top, 0, -1):
            lo = bisect.bisect_left(gens, 1 << s * n, 0, hi)
            level = ordered[n] = sorted(lower.union(gens[lo:hi])) if lower else gens[lo:hi]
            hi = lo
            if n > 1:
                dropped[n] = _drops(level, n, s)
                lower = set().union(*dropped[n])
        self.keys = list(itertools.chain.from_iterable(ordered))
        self.start = list(itertools.accumulate(map(len, ordered)))
        self.ids = list(range(len(self.keys)))
        self.index = dict(zip(self.keys, self.ids))
        get = self.index.__getitem__
        self.facets: list[tuple[int, ...]] = [()] * self.start[1]
        for n in range(2, top + 1):
            self.facets += zip(*(map(get, faces) for faces in dropped[n]))
            dropped[n] = []  # free the level's drop lists once they are facets
        self._cofacets: list[list[int]] | None = None
        self._by_line: dict[str, int] | tuple[list[str], list[int]] | None = None

    @classmethod
    def of_names(cls, generators: list[Sequence[str]], lines: list[str] | None = None) -> "_Table":
        """The table closed from sequences of vertex names, each in any
        order: a generator is ranked, then its ranks sorted, which gives the
        ranks of its sorted names, as ranks keep the order of names, and
        those are packed into its key (`_key`).  `lines`, when given, are
        the strings the generators were read from, one each; the table
        keeps them with the generators' keys."""
        names = sorted(set(itertools.chain.from_iterable(generators)))
        rank = dict(zip(names, range(len(names)))).__getitem__
        s = _width(len(names))
        keys = [_key(sorted(map(rank, vs)), s) for vs in generators]
        table = cls(keys, names)
        if lines is not None:
            table._by_line = lines, keys
        return table

    def line_ids(self, first: str) -> dict[str, int] | None:
        """The id of each generator by the line it was read from (see
        `of_names`), or None for a table read from no lines.  The first call
        decides: it builds the map, through each generator's key, if its
        `first` line is one of them, and else drops the lines, so that a
        decomposition file whose lines are not copies of the complex file's
        pays one scan of them, not the map.  A `.dec` piece line that the
        map holds as written is one probe of it and is never split
        (`formats._read_decomposition`); any other is split, checked for a
        repeated name and ranked (`SimplicialComplex._ids_of`), with the
        same errors."""
        if type(self._by_line) is tuple:
            lines, keys = self._by_line
            self._by_line = (dict(zip(lines, map(self.index.__getitem__, keys)))
                             if first in lines else None)
        return self._by_line

    def __len__(self) -> int:
        return len(self.facets)

    @property
    def verts(self) -> list[tuple[int, ...]]:
        """The rank tuple of every member, by id, decoded afresh from its key."""
        return list(map(_ranks, self.keys, itertools.repeat(self.width)))

    @property
    def cofacets(self) -> list[list[int]]:
        if self._cofacets is None:
            cof: list[list[int]] = [[] for _ in self.facets]
            lo = self.start[1]
            for t, fs in zip(self.ids[lo:], self.facets[lo:]):
                for f in fs:
                    cof[f].append(t)
            self._cofacets = cof
        return self._cofacets

    def simplices(self, ids: Iterable[int], tag: str) -> tuple[Simplex, ...]:
        """The members with these ids, each a fresh `Simplex` with every
        vertex named tag + its name, read off its key: a vertex's and an
        edge's, the cells a trajectory steps through, without a loop."""
        names, keys, s = self.names, self.keys, self.width
        mask, edge, triangle = (1 << s) - 1, 1 << 2 * s, 1 << 3 * s
        return tuple([_canonical(
            (tag + names[k & mask],) if k < edge
            else (tag + names[k >> s & mask], tag + names[k & mask]) if k < triangle
            else tuple([tag + names[v] for v in _ranks(k, s)])
        ) for k in map(keys.__getitem__, ids)])

    def simplex(self, i: int, tag: str) -> Simplex:
        return self.simplices((i,), tag)[0]


def _width(count: int) -> int:
    """The bits of a rank among `count` names."""
    return max(1, (count - 1).bit_length())


def _key(ranks: Iterable[int], width: int) -> int:
    """The key of the member on these ranks, ascending, `width` bits each
    (see `_Table`); a rank of -1, which no vertex has, gives a negative
    key, which no member has."""
    key = 1
    for v in ranks:
        key = key << width | v
    return key


def _ranks(key: int, width: int) -> tuple[int, ...]:
    """The ranks, ascending, that `key` packs `width` bits each (`_key`)."""
    mask, low = (1 << width) - 1, (key.bit_length() - 1) // width * width
    return tuple([key >> sh & mask for sh in range(low - width, -1, -width)])


def _drops(level: list[int], n: int, s: int) -> list[list[int]]:
    """For k = 0..n-1, the keys of `level`, each of n vertices of s bits,
    without their k-th vertex: the bits above it shifted down onto the
    bits below it, or for the first, the leading bit set just above them."""
    low = s * (n - 1)  # the bits of the ranks after the one dropped
    below, lead = (1 << low) - 1, 1 << low
    drops = [[key & below | lead for key in level]]
    for low in range(low - s, 0, -s):
        high, below = low + s, (1 << low) - 1
        drops.append([key >> high << low | key & below for key in level])
    drops.append([key >> s for key in level])
    return drops


class SimplicialComplex:
    """The downward closure of a finite nonempty family of simplices.

    Simplices are stored positively oriented.  Iteration and all tuple-valued
    accessors are sorted by (dimension, vertex tuple), so the complex imposes
    a single canonical ordering that everything downstream (boundary
    matrices, generator lists, reports) inherits.

    Every complex reads one id table (`_Table`) through a membership mask.
    A complex closed from generators owns its table and holds every id;
    `subcomplex`, `intersection` and a tagged copy give *views*: complexes
    over the same table with a smaller mask, or with every vertex renamed
    tag + v.  A view is a complex like any other and equals the complex
    closed afresh from the same generators.
    """

    def __init__(self, generators: Iterable[Simplex | str]):
        gens = [g if isinstance(g, Simplex) else Simplex(g) for g in generators]
        if not gens:
            raise ComplexError("a simplicial complex needs at least one simplex")
        self._setup(_Table.of_names([g.vertices for g in gens]), None, "")

    @classmethod
    def _of(cls, table: _Table) -> "SimplicialComplex":
        """The complex of every member of `table`."""
        x = object.__new__(cls)
        x._setup(table, None, "")
        return x

    def _setup(self, table: _Table, mask: bytearray | None, tag: str) -> None:
        if mask is None:
            mask = bytearray(b"\x01") * len(table)
        self._table, self._mask, self._tag = table, mask, tag
        # each id is the table's own int object: a view holds no int of its own
        bounds, every = table.start, table.ids
        ids = [
            list(itertools.compress(every[lo:hi], mask[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        while ids and not ids[-1]:
            ids.pop()
        if not ids:
            raise ComplexError("a simplicial complex needs at least one simplex")
        self._ids: tuple[list[int], ...] = tuple(ids)
        self._size = sum(map(len, ids))

    def _view(self, mask: bytearray) -> "SimplicialComplex":
        """The complex over this table with the given (closed) member mask."""
        view = object.__new__(SimplicialComplex)
        view._setup(self._table, mask, self._tag)
        return view

    def _tagged(self, tag: str) -> "SimplicialComplex":
        """This complex with every vertex v renamed tag + v (the tag is
        prefixed to any it already has): the same table, mask, ids and
        size, shared with this complex rather than read off the mask again."""
        copy = object.__new__(SimplicialComplex)
        copy._table, copy._mask, copy._tag = self._table, self._mask, tag + self._tag
        copy._ids, copy._size = self._ids, self._size
        return copy

    # -- ids -----------------------------------------------------------------

    def _ids_of(self, named: Iterable[Iterable[str]]) -> list[int | None]:
        """The id of the member with each list of vertex names, in any
        order, or None: ranked, then the ranks sorted and packed into a key,
        as in `_Table.of_names`.  A name that is not a vertex never
        matches, nor does a repeated one.  A `.dec` piece line that the
        complex file holds as written never comes here: it is one probe of
        `_Table.line_ids`, never split; any other line comes as the names
        it was split into, already checked, and is ranked here."""
        tag, table = self._tag, self._table
        if tag:  # a name without the tag becomes None, which is no vertex
            n = len(tag)
            named = [[v[n:] if v.startswith(tag) else None for v in vs] for vs in named]
        # a name that is no vertex ranks -1, whose key no member has
        rank, index, unknown, s = table.rank.get, table.index.get, itertools.repeat(-1), table.width
        ids = [index(_key(sorted(map(rank, vs, unknown)), s)) for vs in named]
        mask = self._mask
        return [i if i is not None and mask[i] else None for i in ids]

    def _id(self, s: Simplex | str | Iterable[str]) -> int | None:
        """The id of the member named by a Simplex, a string of names or
        names (`_names`), or None: the one-member case of `_ids_of`."""
        return self._ids_of([_names(s)])[0]

    def _simplex(self, i: int) -> Simplex:
        return self._table.simplex(i, self._tag)

    def _simplices_of(self, ids: Iterable[int]) -> tuple[Simplex, ...]:
        """The members with these ids, named with this complex's tag."""
        return self._table.simplices(ids, self._tag)

    def _members_in(self, other: "SimplicialComplex") -> bytearray:
        """The mask, over this table, of the members also in `other`."""
        if other._table is self._table and other._tag == self._tag:
            both = int.from_bytes(self._mask, "little") & int.from_bytes(other._mask, "little")
            return bytearray(both.to_bytes(len(self._table), "little"))
        ids = list(itertools.chain.from_iterable(self._ids))
        found = other._ids_of(s.vertices for s in self._simplices_of(ids))
        mask = bytearray(len(self._table))
        for i, j in zip(ids, found):
            if j is not None:
                mask[i] = 1
        return mask

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._ids) - 1

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple([s.vertices[0] for s in self._simplices_of(self._ids[0])])

    def _maximal_ids(self) -> list[int]:
        """The ids of the members that are facets of no member, ascending."""
        mask, cof = self._mask, self._table.cofacets
        return [i for ids in self._ids for i in ids if not any(mask[t] for t in cof[i])]

    @property
    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The members that are facets of no member, in canonical order."""
        return self._simplices_of(self._maximal_ids())

    def simplices(self, q: int | None = None) -> tuple[Simplex, ...]:
        """All simplices of dimension q (empty tuple if none), or every
        simplex in ascending (dimension, vertex) order when q is None."""
        if q is None:
            return tuple(itertools.chain.from_iterable(
                self.simplices(d) for d in range(len(self._ids))
            ))
        if not 0 <= q < len(self._ids):
            return ()
        return self._simplices_of(self._ids[q])

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices())

    def __len__(self) -> int:
        return self._size

    def __contains__(self, s) -> bool:
        return self._id(s) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and len(self) == len(other)
            and self.is_subcomplex_of(other)
        )

    def __repr__(self) -> str:
        return f"<SimplicialComplex dim {self.dim}, f-vector {self.f_vector()}>"

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self._ids)

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * n for q, n in enumerate(self.f_vector()))

    def _member(self, s: Simplex) -> int:
        i = self._id(s)
        if i is None:
            raise ComplexError(f"{s} is not in the complex")
        return i

    def facets(self, s: Simplex) -> tuple[Simplex, ...]:
        """The facets of a member simplex, as members, in vertex-drop order:
        the k-th drops the k-th vertex and has incidence (-1)^k with s."""
        return self._simplices_of(self._table.facets[self._member(s)])

    def cofacets(self, s: Simplex) -> tuple[Simplex, ...]:
        """Members having s as a facet."""
        mask = self._mask
        return self._simplices_of(t for t in self._table.cofacets[self._member(s)] if mask[t])

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._members_in(other) == self._mask

    def subcomplex(self, generators: Iterable[Simplex | str]) -> "SimplicialComplex":
        """The view closed downward from generators that are members of
        this complex; ComplexError names the first one that is not."""
        gens = [g if isinstance(g, Simplex) else Simplex(g) for g in generators]
        ids = self._ids_of([g.vertices for g in gens])
        if None in ids:
            raise ComplexError(f"{gens[ids.index(None)]} is not in the complex")
        return self._closure(ids)

    def _closure(self, ids: Iterable[int]) -> "SimplicialComplex":
        """The view closed downward from these member ids."""
        table = self._table
        mask = bytearray(len(table))
        for i in ids:
            mask[i] = 1
        # close one dimension at a time, from the top down
        bounds, facets = table.start, table.facets
        for lo, hi in reversed(list(zip(bounds[1:], bounds[2:]))):
            for f in itertools.chain.from_iterable(itertools.compress(facets[lo:hi], mask[lo:hi])):
                mask[f] = 1
        return self._view(mask)


def build_complex(maximal_simplices: Iterable[Simplex | str]) -> SimplicialComplex:
    """Close a generating family of simplices into a simplicial complex."""
    return SimplicialComplex(maximal_simplices)


def union(*complexes: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex(
        itertools.chain.from_iterable(c.maximal_simplices for c in complexes)
    )


def intersection(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """The subcomplex of simplices common to x and y, as a view over x.

    Raises ComplexError when the two complexes share nothing (an empty
    complex is not representable); callers that must allow disjoint pieces
    test for overlap first.
    """
    common = x._members_in(y)
    if 1 not in common:
        raise ComplexError("the complexes share no simplices")
    return x._view(common)


class ComplexCopy:
    """A tagged copy of a complex: the same id table and members, with
    every vertex v named tag + v.  There is no renaming between a copy and
    its source, as both are ids of one table; a fixed prefix keeps the
    order of vertex names, so orientations and incidence numbers agree.
    """

    def __init__(self, source: SimplicialComplex, tag: str):
        self.tag = tag
        self.complex = source._tagged(tag)


def copy_relabel(y: SimplicialComplex, tag: str) -> ComplexCopy:
    """A disjoint copy of y with every vertex v renamed to tag + v: a tag
    on y's members, not a new closure.

    Prefixing with a fixed tag preserves the relative order of vertex names,
    so the copy's canonical orientations match the source's.
    """
    if not tag:
        raise ComplexError("relabelling tag must be nonempty")
    return ComplexCopy(y, tag)
